"""Spans around the public entry points of each openosc layer.

The program itself is not instrumented.  While a ``Tracer`` is installed it
replaces every traced function, in each openosc module that binds it, by a
wrapper that records a span (name, start, end, parent, operation id) and a
few counters read from the call's arguments and results.  Methods are
replaced on their class.  Patching every binding matters because modules
import names directly: ``openosc.cli.coefficient_series`` and
``openosc.scenarios.coefficient_series`` are separate bindings of one
function.

Spans stay in memory; ``layer_metrics`` reduces the spans of one operation
to the per-layer metrics, and ``dump`` writes them all out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

import numpy as np

import openosc.cli
import openosc.dynamics
import openosc.oracle
import openosc.scenarios
import openosc.transport.asymptotics
import openosc.transport.coefficients
import openosc.transport.quadrature
import openosc.transport.roots
from openosc.transport.kernels import KernelEvaluator
from openosc.transport.quadrature import MemoryIntegrator

#: nodes per Gauss-Kronrod panel
K15 = 15


def _rk4_steps(attrs, bound, result):
    # the stepper takes two RK4 steps per interval of the coefficient grid
    series = bound.get("series", bound.get("series1"))
    attrs["rk4_steps"] = 2 * (series.t.size - 1)


def _mn_evals(attrs, bound, result):
    attrs["nodes"] = int(np.size(bound["wq"]))
    attrs["evals"] = attrs["nodes"] * int(np.size(bound["t"]))


def _quadrature_report(attrs, bound, result):
    integrator = bound["self"]
    rep = integrator.last_report
    attrs["integrator"] = id(integrator)
    attrs["panels"] = rep.n_panels
    attrs["w_max"] = rep.w_max
    attrs["max_rel_error"] = rep.max_rel_error
    attrs["tail_bound"] = dict(rep.tail_bound)
    attrs["i_max"] = {name: float(np.max(np.abs(value)))
                      for name, (value, _deriv) in result.items()}


def _oracle_modes(attrs, bound, result):
    attrs["modes"] = int(bound["n_modes"]) * len(bound["spec"].baths)


def _csv_bytes(attrs, bound, result):
    attrs["bytes"] = os.path.getsize(bound["path"])


#: (span name, module that defines the function, attribute, counter)
FUNCTIONS = [
    ("roots.characteristic_roots", openosc.transport.roots,
     "characteristic_roots", None),
    ("coefficients.coefficient_series", openosc.transport.coefficients,
     "coefficient_series", None),
    ("quadrature.integrate_static", openosc.transport.quadrature,
     "integrate_static", None),
    ("asymptotics.asymptotic_bath_integral", openosc.transport.asymptotics,
     "asymptotic_bath_integral", None),
    ("asymptotics.asymptotic_occupation", openosc.transport.asymptotics,
     "asymptotic_occupation", None),
    ("asymptotics.stationarity_condition_residual",
     openosc.transport.asymptotics, "stationarity_condition_residual", None),
    ("dynamics.evolve", openosc.dynamics, "evolve", _rk4_steps),
    ("dynamics.evolve_coupled", openosc.dynamics, "evolve_coupled",
     _rk4_steps),
    ("dynamics.delta_dissipation", openosc.dynamics, "delta_dissipation",
     None),
    ("oracle.evolve_exact", openosc.oracle, "evolve_exact", _oracle_modes),
    ("scenarios.run_scenario", openosc.scenarios, "run_scenario", None),
    ("cli.main", openosc.cli, "main", None),
    ("cli.write_csv", openosc.cli, "write_csv", _csv_bytes),
    ("cli.write_observables", openosc.cli, "write_observables", _csv_bytes),
]

#: (span name, class, method, counter)
METHODS = [
    ("kernels.amplitude_series", KernelEvaluator, "amplitude_series", None),
    ("kernels.mn_block", KernelEvaluator, "mn_block", _mn_evals),
    ("quadrature.integrate", MemoryIntegrator, "integrate",
     _quadrature_report),
]

#: the per-layer metrics and their units, in report order
LAYER_METRICS = {
    "roots.calls": "count",
    "roots.s": "s",
    "kernels.amplitude.s": "s",
    "kernels.mn_block.calls": "count",
    "kernels.mn_block.s": "s",
    "kernels.mn_block.evals": "count",
    "kernels.mn_block.evals_per_s": "1/s",
    "quadrature.chunks": "count",
    "quadrature.self_s": "s",
    "quadrature.panels": "count",
    "quadrature.panels_chunk0": "count",
    "quadrature.panels_max": "count",
    "quadrature.node_yield": "1",
    "quadrature.w_max_final": "Omega",
    "quadrature.max_rel_error": "1",
    "quadrature.tail_rel": "1",
    "quadrature.static.calls": "count",
    "quadrature.static.s": "s",
    "coefficients.calls": "count",
    "coefficients.self_s": "s",
    "asymptotics.calls": "count",
    "asymptotics.self_s": "s",
    "dynamics.runs": "count",
    "dynamics.s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.steps_per_s": "1/s",
    "oracle.calls": "count",
    "oracle.s": "s",
    "oracle.modes": "count",
    "scenarios.self_s": "s",
    "cli.write_csv.s": "s",
    "cli.csv_bytes": "bytes",
    "cli.self_s": "s",
    "oracle.max_dev": "1",
    "run.warnings": "count",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, clock_zero: float):
        self.zero = clock_zero
        self.spans = []  # dicts: name, start, end, parent, op, attrs
        self._stack = []
        self._saved = []  # (owner, attribute, original)
        self.op = None

    # ---------------------------------------------------------------- spans

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "op": self.op,
                           "attrs": {}})
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op):
        """Install the patches and record operation ``op`` as a root span."""
        self.op = op
        with self.installed():
            span = self._open("op")
            try:
                yield span
            finally:
                self._close(span)

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(span["attrs"], bound.arguments, result)
                return result
            finally:
                self._close(span)

        return traced

    # ------------------------------------------------------------- patching

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced binding for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "openosc" or n.startswith("openosc."))]
        try:
            for name, module, attr, counter in FUNCTIONS:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, counter)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        self._saved.append((m, attr, original))
                        setattr(m, attr, wrapped)
            for name, cls, attr, counter in METHODS:
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, counter))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # ------------------------------------------------------------ reduction

    def layer_metrics(self, op) -> dict:
        """Per-layer metrics of one operation, keyed as in LAYER_METRICS."""
        index = [i for i, s in enumerate(self.spans) if s["op"] == op]
        spans = {i: self.spans[i] for i in index}
        child_time = {i: 0.0 for i in index}
        for i, s in spans.items():
            if s["parent"] in child_time:
                child_time[s["parent"]] += s["end"] - s["start"]

        def dur(i):
            return spans[i]["end"] - spans[i]["start"]

        def self_time(i):
            return dur(i) - child_time[i]

        def named(*names):
            return [i for i, s in spans.items() if s["name"] in names]

        def layer(prefix):
            return [i for i, s in spans.items()
                    if s["name"].startswith(prefix + ".")]

        def outermost(ids):
            ids = set(ids)
            return [i for i in ids if spans[i]["parent"] not in ids]

        m = {}
        roots = named("roots.characteristic_roots")
        m["roots.calls"] = len(roots)
        m["roots.s"] = sum(dur(i) for i in roots)
        m["kernels.amplitude.s"] = sum(dur(i) for i in named("kernels.amplitude_series"))

        mn = named("kernels.mn_block")
        m["kernels.mn_block.calls"] = len(mn)
        m["kernels.mn_block.s"] = sum(dur(i) for i in mn)
        m["kernels.mn_block.evals"] = sum(spans[i]["attrs"]["evals"] for i in mn)
        m["kernels.mn_block.evals_per_s"] = _ratio(m["kernels.mn_block.evals"],
                                                   m["kernels.mn_block.s"])

        chunks = sorted(named("quadrature.integrate"))
        attrs = [spans[i]["attrs"] for i in chunks]
        m["quadrature.chunks"] = len(chunks)
        m["quadrature.self_s"] = sum(self_time(i) for i in chunks)
        m["quadrature.panels"] = sum(a["panels"] for a in attrs)
        first_chunk = {}
        for a in attrs:
            first_chunk.setdefault(a["integrator"], a["panels"])
        m["quadrature.panels_chunk0"] = max(first_chunk.values(), default=0)
        m["quadrature.panels_max"] = max((a["panels"] for a in attrs), default=0)
        nodes = sum(spans[i]["attrs"]["nodes"] for i in mn
                    if spans[i]["parent"] in chunks)
        m["quadrature.node_yield"] = _ratio(K15 * m["quadrature.panels"], nodes)
        m["quadrature.w_max_final"] = max((a["w_max"] for a in attrs), default=0.0)
        m["quadrature.max_rel_error"] = max((a["max_rel_error"] for a in attrs),
                                            default=0.0)
        m["quadrature.tail_rel"] = _tail_rel(attrs)

        static = named("quadrature.integrate_static")
        m["quadrature.static.calls"] = len(static)
        m["quadrature.static.s"] = sum(dur(i) for i in static)

        series = named("coefficients.coefficient_series")
        m["coefficients.calls"] = len(series)
        m["coefficients.self_s"] = sum(self_time(i) for i in series)

        asym = layer("asymptotics")
        m["asymptotics.calls"] = len(outermost(asym))
        m["asymptotics.self_s"] = sum(self_time(i) for i in asym)

        runs = named("dynamics.evolve", "dynamics.evolve_coupled")
        m["dynamics.runs"] = len(runs)
        m["dynamics.s"] = sum(self_time(i) for i in layer("dynamics"))
        m["dynamics.rk4_steps"] = sum(spans[i]["attrs"]["rk4_steps"] for i in runs)
        m["dynamics.steps_per_s"] = _ratio(m["dynamics.rk4_steps"], m["dynamics.s"])

        oracle = named("oracle.evolve_exact")
        m["oracle.calls"] = len(oracle)
        m["oracle.s"] = sum(dur(i) for i in oracle)
        m["oracle.modes"] = sum(spans[i]["attrs"]["modes"] for i in oracle)

        m["scenarios.self_s"] = sum(self_time(i) for i in layer("scenarios"))
        csv = named("cli.write_csv", "cli.write_observables")
        m["cli.write_csv.s"] = sum(dur(i) for i in csv)
        m["cli.csv_bytes"] = sum(spans[i]["attrs"]["bytes"] for i in csv)
        m["cli.self_s"] = sum(self_time(i) for i in named("cli.main"))
        # time of the operation outside every layer span: the benchmark's
        # own glue; with it the self times add up to the operation's span
        m["trace.unattributed_s"] = sum(self_time(i) for i in named("op"))
        return m

    def dump(self):
        """Spans as plain records, times in seconds from the clock zero."""
        return [dict(s, start=s["start"] - self.zero, end=s["end"] - self.zero)
                for s in self.spans]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _tail_rel(chunk_attrs):
    """Largest cutoff remainder bound relative to its integral's maximum."""
    tail, i_max = {}, {}
    for a in chunk_attrs:
        for comp, bound in a["tail_bound"].items():
            key = (a["integrator"], comp)
            tail[key] = max(tail.get(key, 0.0), bound)
            i_max[key] = max(i_max.get(key, 0.0), a["i_max"][comp])
    return max((tail[k] / i_max[k] for k in tail if i_max[k] > 0), default=0.0)
