"""Preset systems and runners for the eight bundled example scenarios.

The presets cover the three studied configurations:

* ``fig1``/``fig2`` -- one oscillator between a fermionic and a bosonic
  bath (coefficients, then occupation).
* ``fig3``/``fig4`` -- two mixed-bath oscillators with a 2:1 frequency
  ratio, bilinearly coupled (coefficients, then occupations over a range
  of coupling strengths).
* ``fig5``..``fig8`` -- equal-frequency pair, one oscillator on
  fermionic-bosonic baths and one on bosonic-bosonic baths
  (coefficients, occupations, dissipated energies, and the
  coupling-induced dissipation excess).

Temperatures, cutoffs and couplings are stored here as plain constants;
everything is expressed in units of the first oscillator's renormalized
frequency (hbar = k_B = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import delta_dissipation, evolve, evolve_coupled
from .errors import ConfigError
from .model import BathSpec, CoupledSpec, SystemSpec, make_system
from .transport.coefficients import coefficient_series
from .transport.quadrature import DEFAULT_RTOL

#: coupling strengths used by the coupled-run scenarios (units Omega_1^2)
BETA_FAMILY = (0.01, 0.03, 0.1, 0.6)


def fig1_system() -> SystemSpec:
    """Single oscillator: fermionic bath (hot) plus bosonic bath (cold)."""
    return make_system(
        1.0,
        BathSpec(statistics=-1, alpha=0.10, gamma=10.0, temperature=1.0),
        BathSpec(statistics=+1, alpha=0.05, gamma=15.0, temperature=0.1),
    )


def fig3_pair() -> CoupledSpec:
    """Two mixed-bath oscillators, frequency ratio 2, identical baths."""
    def system(Omega):
        return make_system(
            Omega,
            BathSpec(statistics=-1, alpha=0.03, gamma=12.0, temperature=0.5),
            BathSpec(statistics=+1, alpha=0.03, gamma=12.0, temperature=0.5),
        )

    return CoupledSpec(systems=(system(1.0), system(2.0)))


def fig5_pair() -> CoupledSpec:
    """Equal frequencies; fermionic-bosonic baths vs bosonic-bosonic baths."""
    s1 = make_system(
        1.0,
        BathSpec(statistics=-1, alpha=0.03, gamma=12.0, temperature=0.1),
        BathSpec(statistics=+1, alpha=0.03, gamma=12.0, temperature=1.0),
    )
    s2 = make_system(
        1.0,
        BathSpec(statistics=+1, alpha=0.05, gamma=12.0, temperature=1.0),
        BathSpec(statistics=+1, alpha=0.03, gamma=15.0, temperature=0.1),
    )
    return CoupledSpec(systems=(s1, s2))


@dataclass(frozen=True)
class ScenarioDef:
    """What a named scenario computes and over which grid."""

    name: str
    description: str
    product: str  # coefficients | trajectory | coupled-coefficients |
    #               coupled-trajectory | energies | delta-dissipation
    t_max: float
    dt: float
    n0: tuple = (0.0,)
    betas: tuple = ()


SCENARIOS = {
    "fig1": ScenarioDef(
        "fig1",
        "friction, diffusion and their ratio for the fermionic+bosonic system",
        "coefficients", t_max=20.0, dt=0.01),
    "fig2": ScenarioDef(
        "fig2",
        "occupation of the initially empty fermionic+bosonic system",
        "trajectory", t_max=8.0, dt=0.01),
    "fig3": ScenarioDef(
        "fig3",
        "coefficients for the detuned mixed-bath pair",
        "coupled-coefficients", t_max=20.0, dt=0.01),
    "fig4": ScenarioDef(
        "fig4",
        "occupations of the detuned pair at several coupling strengths",
        "coupled-trajectory", t_max=20.0, dt=0.01, n0=(0.0, 0.0),
        betas=BETA_FAMILY),
    "fig5": ScenarioDef(
        "fig5",
        "coefficients for the equal-frequency pair",
        "coupled-coefficients", t_max=20.0, dt=0.01),
    "fig6": ScenarioDef(
        "fig6",
        "occupations of the equal-frequency pair at several couplings",
        "coupled-trajectory", t_max=20.0, dt=0.01, n0=(0.0, 0.0),
        betas=BETA_FAMILY),
    "fig7": ScenarioDef(
        "fig7",
        "dissipated energies of the equal-frequency pair",
        "energies", t_max=20.0, dt=0.01, n0=(0.0, 0.0),
        betas=(0.0,) + BETA_FAMILY),
    "fig8": ScenarioDef(
        "fig8",
        "coupling-induced dissipation excess and its smoothed rate",
        "delta-dissipation", t_max=20.0, dt=0.01, n0=(0.0, 0.0),
        betas=BETA_FAMILY),
}

_PAIR_BUILDERS = {"fig3": fig3_pair, "fig4": fig3_pair,
                  "fig5": fig5_pair, "fig6": fig5_pair,
                  "fig7": fig5_pair, "fig8": fig5_pair}


@dataclass
class ScenarioResult:
    """Tables produced by one scenario run.

    ``tables`` maps a file stem to (column names, column arrays); the CLI
    writes each as a CSV.  ``metadata`` carries the resolved parameters.
    """

    name: str
    tables: dict
    metadata: dict = field(default_factory=dict)


def _coefficient_table(series):
    cols = [series.t, series.friction, series.diffusion,
            series.diffusion_parts[0], series.diffusion_parts[1],
            series.memory_integrals[0], series.memory_integrals[1],
            series.ratio]
    names = ["t", "lambda", "D", "D1_part", "D2_part", "I1", "I2", "ratio"]
    return names, cols


def _trajectory_table(traj):
    if len(traj.occupations) == 1:
        return (["t", "n1", "dn1_dt"],
                [traj.t, traj.occupations[0], traj.rates[0]])
    return (["t", "n1", "n2", "dn1_dt", "dn2_dt"],
            [traj.t, traj.occupations[0], traj.occupations[1],
             traj.rates[0], traj.rates[1]])


def _energies_table(traj):
    return (["t", "E1", "E2"],
            [traj.t, traj.dissipation[0], traj.dissipation[1]])


def run_scenario(name: str, *, t_max=None, dt=None, n0=None,
                 rtol=DEFAULT_RTOL, abs_A_power: int = 2,
                 w_max_factor: float = 1.0) -> ScenarioResult:
    """Run one preset scenario and return its tables."""
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    d = SCENARIOS[name]
    t_max = float(t_max if t_max is not None else d.t_max)
    dt = float(dt if dt is not None else d.dt)
    n0 = tuple(np.atleast_1d(n0)) if n0 is not None else d.n0
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    kw = dict(rtol=rtol, abs_A_power=abs_A_power, w_max_factor=w_max_factor)

    meta = {"scenario": name, "description": d.description, "t_max": t_max,
            "dt": dt, "rtol": rtol, "abs_A_power": abs_A_power}
    tables = {}

    if d.product in ("coefficients", "trajectory"):
        spec = fig1_system()
        series = coefficient_series(spec, t, **kw)
        if d.product == "coefficients":
            names, cols = _coefficient_table(series)
            tables["coefficients"] = (names, cols)
        else:
            traj = evolve(series, spec, n0[0])
            tables["trajectory"] = _trajectory_table(traj)
            meta["envelope_exceeded"] = traj.metadata["envelope_exceeded"]
        return ScenarioResult(name=name, tables=tables, metadata=meta)

    pair = _PAIR_BUILDERS[name]()
    s1, s2 = pair.systems
    series1 = coefficient_series(s1, t, **kw)
    series2 = coefficient_series(s2, t, **kw)

    if d.product == "coupled-coefficients":
        for label, series in (("system1", series1), ("system2", series2)):
            tables[f"coefficients_{label}"] = _coefficient_table(series)
        return ScenarioResult(name=name, tables=tables, metadata=meta)

    n0 = n0 if len(n0) == 2 else (n0[0], n0[0])
    meta["betas"] = list(d.betas)
    if d.product == "coupled-trajectory":
        for beta in d.betas:
            traj = evolve_coupled(series1, series2, s1, s2, beta, n0)
            tables[f"trajectory_beta{beta:g}"] = _trajectory_table(traj)
    elif d.product == "energies":
        for beta in d.betas:
            traj = evolve_coupled(series1, series2, s1, s2, beta, n0)
            tables[f"energies_beta{beta:g}"] = _energies_table(traj)
    elif d.product == "delta-dissipation":
        for beta in d.betas:
            dd = delta_dissipation(series1, series2, s1, s2, beta, n0)
            tables[f"delta_beta{beta:g}"] = (
                ["t", "delta_E1", "delta_E2", "rate1", "rate2"],
                [dd.t, dd.delta_energy[0], dd.delta_energy[1],
                 dd.delta_rate[0], dd.delta_rate[1]],
            )
            meta["smoothing_window"] = list(dd.window)
    return ScenarioResult(name=name, tables=tables, metadata=meta)
