"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
timed operation in ``run``.  ``check`` returns the problems found in that
operation's outputs, plus any output values the record keeps;
``final_check`` runs once per worker, outside the timing.
Every call into openosc goes through a module attribute looked up at call
time, so the tracer's patches see it.

Seed 0 runs the presets exactly.  Any other seed scales each bath's
coupling ``alpha`` and temperature by its own factor drawn uniformly from
[1 - PERTURBATION, 1 + PERTURBATION]; cutoffs and frequencies stay fixed.
Outputs are compared with the stored references only at seed 0.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import openosc.cli
import openosc.dynamics
import openosc.scenarios
import openosc.transport.asymptotics
import openosc.transport.coefficients
from openosc.model import BathSpec, make_system

REFERENCE = Path(__file__).resolve().parent / "reference"

PERTURBATION = 0.02

#: Reference tolerances, as a share of each column's largest magnitude.
#: Re-running fig1 at rtol 1e-9 or with a 2x or 3x initial cutoff moves
#: lambda and D by up to 3.4e-4 and I1, I2 by up to 3.0e-5 of their
#: maxima, so a correct change of quadrature method stays inside these;
#: a lost or mis-weighted bath component or a wrong stepper does not.
SERIES_TOL = {"lambda": 2e-3, "D": 2e-3, "I1": 2e-4, "I2": 2e-4}
PAIR_TOL = 2e-3
ZERO_RTOL = 1e-12
ASYMPTOTIC_RTOL = 1e-6
#: the tolerance of the beta_zero_reduction row of ``openosc validate``
BETA0_ATOL = 1e-8


def perturbed(system, rng):
    """``system`` with each bath's alpha and temperature scaled by the rng."""
    baths = [BathSpec(statistics=b.statistics,
                      alpha=b.alpha * (1 + PERTURBATION * rng.uniform(-1, 1)),
                      gamma=b.gamma,
                      temperature=b.temperature
                      * (1 + PERTURBATION * rng.uniform(-1, 1)))
             for b in system.baths]
    return make_system(system.omega_renormalized, *baths)


def describe(system):
    return {"Omega": system.omega_renormalized,
            "baths": [{"statistics": b.statistics, "alpha": b.alpha,
                       "gamma": b.gamma, "temperature": b.temperature}
                      for b in system.baths]}


def read_table(path):
    """CSV written by the CLI as a dict of column name -> float array."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def compare(problems, label, value, ref, tol):
    """Append a problem if ``value`` leaves ``tol`` x max|ref| of ``ref``."""
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    if value.shape != ref.shape:
        problems.append(f"{label}: shape {value.shape} != reference {ref.shape}")
        return
    dev = float(np.max(np.abs(value - ref)))
    allowed = tol * float(np.max(np.abs(ref)))
    if not dev <= allowed:
        problems.append(f"{label}: deviates {dev:.3g} from the reference "
                        f"(allowed {allowed:.3g})")


class CliWorkload:
    """A workload whose operation is one ``openosc`` command line."""

    argv: list

    def run(self, state, out_dir):
        # keep the command's console output off the benchmark's
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return openosc.cli.main(["--out", str(out_dir)] + self.argv)

    def final_check(self, state):
        return []


class Fig1Scenario(CliWorkload):
    name = "fig1-scenario"
    argv = ["scenario", "fig1", "--t-max", "5", "--dt", "0.02"]
    rows = 251
    reference = REFERENCE / "fig1-scenario.csv"

    def setup(self, seed):
        system = openosc.scenarios.fig1_system()
        if seed != 0:
            system = perturbed(system, np.random.default_rng(seed))
            baths = system.baths
            # the scenario builds its system inside the timed operation
            openosc.scenarios.fig1_system = lambda: make_system(
                system.omega_renormalized, *baths)
        return {"seed": seed, "parameters": describe(system)}

    def check(self, state, out_dir, rc):
        if rc != 0:
            return [f"exit code {rc}"], {}
        table = read_table(out_dir / "coefficients.csv")
        problems = []
        if table["t"].size != self.rows:
            problems.append(f"{table['t'].size} rows, expected {self.rows}")
        for col in ("I1", "I2"):
            # t = 0 shares chunk 0 with later times, so the kernels cancel
            # only to roundoff there (about 1e-31 of the maximum)
            if not abs(table[col][0]) <= ZERO_RTOL * np.max(np.abs(table[col])):
                problems.append(f"{col} at t = 0 is {table[col][0]:.3g}, not 0")
        if state["seed"] == 0 and not problems:
            ref = read_table(self.reference)
            for col, tol in SERIES_TOL.items():
                compare(problems, col, table[col], ref[col], tol)
        return problems, {}

    def write_reference(self, out_dir):
        table = read_table(out_dir / "coefficients.csv")
        cols = ["t"] + list(SERIES_TOL)
        np.savetxt(self.reference, np.column_stack([table[c] for c in cols]),
                   fmt="%.12g", delimiter=",", header=",".join(cols),
                   comments="")


class Validate(CliWorkload):
    name = "validate"
    argv = ["validate"]

    def setup(self, seed):
        return {"seed": seed,
                "parameters": "none: validate has no inputs to perturb, "
                              "so every seed runs the same system"}

    def check(self, state, out_dir, rc):
        if rc != 0:
            return [f"exit code {rc}"], {}
        with open(out_dir / "observables.csv") as fh:
            rows = list(csv.DictReader(fh))
        problems = [f"check {r['name']} is {r['status']}"
                    for r in rows if r["status"] != "pass"]
        dev = {r["name"]: r["value"] for r in rows}.get("oracle_max_deviation")
        if dev is None:
            return problems + ["no oracle_max_deviation row"], {}
        return problems, {"oracle_dev": float(dev)}


class PairDynamics:
    name = "pair-dynamics"
    dt, t_max = 0.05, 10.0
    n0 = (0.0, 0.0)
    stride = 10  # reference keeps every tenth grid point
    reference = REFERENCE / "pair-dynamics.json"

    def setup(self, seed):
        systems = openosc.scenarios.fig5_pair().systems
        if seed != 0:
            rng = np.random.default_rng(seed)
            systems = tuple(perturbed(s, rng) for s in systems)
        t = np.arange(0.0, self.t_max + 0.5 * self.dt, self.dt)
        series = tuple(openosc.transport.coefficients.coefficient_series(s, t)
                       for s in systems)
        return {"seed": seed, "systems": systems, "series": series,
                "parameters": [describe(s) for s in systems]}

    def run(self, state, out_dir):
        dyn = openosc.dynamics
        asy = openosc.transport.asymptotics
        (s1, s2), (c1, c2) = state["systems"], state["series"]
        betas = openosc.scenarios.BETA_FAMILY
        out = {}
        for beta in (0.0,) + betas:
            traj = dyn.evolve_coupled(c1, c2, s1, s2, beta, self.n0)
            out[f"n_beta{beta:g}"] = np.array(traj.occupations)
            out[f"E_beta{beta:g}"] = np.array(traj.dissipation)
        for beta in betas:
            dd = dyn.delta_dissipation(c1, c2, s1, s2, beta, self.n0)
            out[f"deltaE_beta{beta:g}"] = np.array(dd.delta_energy)
        out["asymptotic"] = np.array([asy.asymptotic_occupation(s1),
                                      asy.asymptotic_occupation(s2),
                                      asy.stationarity_condition_residual(s1)])
        return out

    def check(self, state, out_dir, out):
        problems = [f"{key} not finite" for key, value in out.items()
                    if not np.all(np.isfinite(value))]
        if state["seed"] == 0 and not problems:
            ref = json.loads(self.reference.read_text())
            for key, value in out.items():
                if key == "asymptotic":
                    if not np.allclose(value, ref[key], rtol=ASYMPTOTIC_RTOL, atol=0):
                        problems.append(f"{key}: {value} != reference {ref[key]}")
                else:
                    compare(problems, key, value[:, ::self.stride], ref[key], PAIR_TOL)
        return problems, {}

    def final_check(self, state):
        """beta = 0 coupled run against two single runs, outside the timing."""
        (s1, s2), (c1, c2) = state["systems"], state["series"]
        dyn = openosc.dynamics
        pair = dyn.evolve_coupled(c1, c2, s1, s2, 0.0, self.n0)
        singles = [dyn.evolve(c, s, n0).occupations[0]
                   for c, s, n0 in zip((c1, c2), (s1, s2), self.n0)]
        dev = max(float(np.max(np.abs(p - q)))
                  for p, q in zip(pair.occupations, singles))
        return [] if dev <= BETA0_ATOL else [f"beta = 0 pair deviates {dev:.3g} "
                                             "from two single runs"]

    def write_reference(self, out):
        ref = {key: (value.tolist() if key == "asymptotic"
                     else value[:, ::self.stride].tolist())
               for key, value in out.items()}
        self.reference.write_text(json.dumps(ref, indent=1) + "\n")


WORKLOADS = {w.name: w for w in (Fig1Scenario(), Validate(), PairDynamics())}
