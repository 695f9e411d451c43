import json
import warnings

import numpy as np
import pytest

from openosc.cli import (
    config_numerics,
    config_sweep,
    config_system,
    has_second_system,
    load_config,
    main,
    parse_config_text,
    render_config,
    write_csv,
)
from openosc.errors import ConfigError
from openosc.transport.asymptotics import resonance_occupation

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


def test_round_trip():
    raw = parse_config_text(WEAK_PAIR)
    again = parse_config_text(render_config(raw))
    assert raw == again


def test_schema_rejections():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text("[oscillators]\nOmega = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[oscillator]\nomega = 1\n")
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
    assert config_numerics(parse_config_text(WEAK_SINGLE))["abs_A_power"] == 2
    with pytest.raises(ConfigError):
        config_numerics(parse_config_text("[kernel]\nabs_A_power = 3\n"))
    with pytest.raises(ConfigError):
        config_numerics(parse_config_text("[quadrature]\nrtol = -1e-7\n"))
    over = config_numerics(parse_config_text(WEAK_SINGLE), rtol_override=1e-5)
    assert over["rtol"] == 1e-5


def test_sweep_paths():
    raw = parse_config_text(WEAK_SINGLE + "\n[sweep]\nbath.1.alpha = 1e-3, 2e-3\n"
                            "oscillator.Omega = 1.0, 1.5, 2.0\n")
    entries = config_sweep(raw)
    assert [p for p, _ in entries] == ["bath.1.alpha", "oscillator.Omega"]
    assert entries[0][1] == [1e-3, 2e-3]
    for bad in ("run.t_max = 1, 2", "bath.1.statistics = 1, -1",
                "nosuch.key = 1", "bath.1.alpha = a, b"):
        with pytest.raises(ConfigError):
            config_sweep(parse_config_text(f"[sweep]\n{bad}\n"))


def test_write_csv_format(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [np.array([1.0, 0.1]), np.array([2.0, 1e-9])])
    header, rows = _read_csv(path)
    assert header == ["a", "b"]
    assert rows[0] == ["1", "2"]
    assert rows[1] == ["0.1", "1e-09"]


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
    assert meta["numerics"]["abs_A_power"] == 2
    assert "timestamp" not in meta


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


def test_asymptotics_end_to_end(tmp_path):
    cfg = tmp_path / "weak.ini"
    cfg.write_text(WEAK_SINGLE)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "asymptotics"]) == 0
    header, rows = _read_csv(out / "observables.csv")
    names = [r[0] for r in rows]
    assert "system1_asymptotic_occupation" in names
    assert "system1_markovian_mixture" in names
    vals = {r[0]: float(r[1]) for r in rows}
    total = (vals["system1_bath1_integral"] + vals["system1_bath2_integral"])
    assert vals["system1_asymptotic_occupation"] == pytest.approx(total, rel=1e-12)
    # weak coupling: stationary occupation lands near the mixed equilibrium,
    # a few percent high (the counter-rotating terms always add population)
    assert vals["system1_asymptotic_occupation"] > vals["system1_markovian_mixture"]
    assert vals["system1_asymptotic_occupation"] == pytest.approx(
        vals["system1_markovian_mixture"], rel=0.05)
    assert vals["system1_resonance_occupation"] == pytest.approx(
        resonance_occupation(config_system(parse_config_text(WEAK_SINGLE))),
        rel=1e-12)


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
                      "period", "status"]
    assert [r[0] for r in rows] == ["0", "1"]
    assert all(r[-1] == "ok" for r in rows)
    assert float(rows[1][1]) == 2e-3
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["sweep"]["points"] == 2


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
