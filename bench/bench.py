"""openosc benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/bench.py --workload fig1-scenario --seed 0 --seconds 15 --trace 0

Workloads: fig1-scenario, validate, pair-dynamics (see workloads.py and
README.md).  Each run starts worker processes one after another; each
worker runs only this workload: it sets up (imports, inputs,
precomputation), then repeats the operation, one at a time, until its share
of ``--seconds`` has passed.  The operation running at the deadline
completes.  Every operation's outputs are checked; one that raises or fails
its check counts as failed.

With ``--trace 0`` there are WORKERS workers, so that the medians span
several processes, and the metrics are the end-to-end ones: ``wall_s``
(median operation time), ``setup_s`` (median set-up time of the workers)
and ``peak_rss_mb`` (largest worker peak RSS).  With ``--trace 1`` one
worker runs the odd-numbered operations under the tracer (tracing.py); the
metrics are the per-layer ones, medians over the traced operations, and
``trace.overhead_s`` is the traced median minus the untraced one, leaving
out the first operation.

A metric table goes to standard output, followed by one JSON line with the
keys correct, attempted, failed and metrics.  The full record (platform,
versions, generated parameters, samples, failures) and, when tracing, the
spans are written to bench/out/.
"""

import os
import sys
import time

T_ZERO = time.perf_counter()

# Cap BLAS/OpenMP threads before numpy loads; workers inherit this.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)
# Compile from source on every run so set-up time does not depend on
# whether an earlier run left bytecode behind.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
WORKERS = 3
RUN_TIMEOUT_S = 170  # all workers together
# the keys of workloads.WORKLOADS, which the parent does not import: it
# leaves numpy and openosc to the workers
WORKLOAD_NAMES = ("fig1-scenario", "validate", "pair-dynamics")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true",
                   help="run as one worker process and print its results")
    return p.parse_args(argv)


# ------------------------------------------------------------------- worker

def run_operations(wl, state, seconds, tracer):
    """Repeat the operation until ``seconds`` pass.

    With a tracer the odd-numbered operations are traced.  Operation 0 is
    untraced and, as the process's warm-up, left out of the overhead
    comparison, which needs operation 2 as well.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    min_ops = 3 if tracer else 1
    while len(ops) < min_ops or time.perf_counter() < deadline:
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        out_dir = Path(tempfile.mkdtemp(prefix="op-", dir=OUT_DIR))
        op = {"index": index, "traced": traced, "problems": [], "warnings": 0}
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    with (tracer.operation(index) if traced
                          else contextlib.nullcontext()):
                        result = wl.run(state, out_dir)
                finally:
                    op["wall_s"] = time.perf_counter() - start
            op["warnings"] = len(caught)
            op["problems"], outputs = wl.check(state, out_dir, result)
            op.update(outputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            op["problems"].append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        ops.append(op)
    return ops


def layer_metrics(tracer, ops):
    """Medians over the traced operations of every per-layer metric."""
    import tracing

    per_op = []
    for op in ops:
        if op["traced"]:
            m = tracer.layer_metrics(op["index"])
            m["oracle.max_dev"] = op.get("oracle_dev", 0.0)
            m["run.warnings"] = op["warnings"]
            m["trace.wall_s"] = op["wall_s"]
            per_op.append(m)
    metrics = {name: {"value": statistics.median(m[name] for m in per_op),
                      "unit": unit}
               for name, unit in tracing.LAYER_METRICS.items()
               if name != "trace.overhead_s"}
    untraced = statistics.median(op["wall_s"] for op in ops[2::2])
    metrics["trace.overhead_s"] = {
        "value": metrics["trace.wall_s"]["value"] - untraced, "unit": "s"}
    return metrics


def worker(args, stem):
    """Set up, run the operations and print the results as one JSON line."""
    import numpy as np
    import scipy

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(T_ZERO)
    with warnings.catch_warnings(record=True) as setup_warnings:
        warnings.simplefilter("always")
        with tracer.operation("setup") if tracer else contextlib.nullcontext():
            state = wl.setup(args.seed)
    setup_s = time.perf_counter() - T_ZERO

    ops = run_operations(wl, state, args.seconds, tracer)
    out = {
        "setup_s": setup_s,
        "setup_warnings": len(setup_warnings),
        "parameters": state["parameters"],
        "ops": ops,
        "final_problems": wl.final_check(state),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "perturbation": workloads.PERTURBATION,
    }
    if tracer:
        out["layer_metrics"] = layer_metrics(tracer, ops)
        (OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps(tracer.dump()) + "\n")
    print(json.dumps(out))
    return 0


# ------------------------------------------------------------------- parent

def run_worker(args, seconds, deadline):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
         "--trace", str(args.trace), "--worker"],
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path):
    """HEAD of the checkout, or None outside a git repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def workload_why(root: Path, name):
    """The workload's reason for inclusion, as BENCHMARK.json states it."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    return next((w["why"] for w in json.loads(path.read_text())["workloads"]
                 if w["name"] == name), None)


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(samples)[n - 11]


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "openosc" / "__init__.py").is_file():
        print("bench: run from the root of an openosc checkout "
              "(src/openosc not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.worker:
        return worker(args, stem)

    n_workers = 1 if args.trace else WORKERS
    deadline = T_ZERO + RUN_TIMEOUT_S
    runs = [run_worker(args, args.seconds / n_workers, deadline)
            for _ in range(n_workers)]
    ops = [dict(op, worker=w) for w, run in enumerate(runs) for op in run["ops"]]
    final_problems = [p for run in runs for p in run["final_problems"]]
    failed = sum(1 for op in ops if op["problems"])
    walls = [op["wall_s"] for op in ops if not op["traced"]]

    end_to_end = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in runs),
                    "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in runs),
                        "unit": "MB"},
    }
    extra = {"fail_frac": {"value": failed / len(ops), "unit": "1"},
             "wall_s.samples": {"value": len(walls), "unit": "count"}}
    tail = tail_percentile(walls)
    if tail:
        extra[f"wall_s.p{tail[0]}"] = {"value": tail[1], "unit": "s"}
    devs = [op["oracle_dev"] for op in ops if "oracle_dev" in op]
    if devs:
        extra["oracle_dev"] = {"value": max(devs), "unit": "1"}
    metrics = runs[0]["layer_metrics"] if args.trace else end_to_end

    result = {"correct": failed == 0 and not final_problems,
              "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "why": workload_why(root, args.workload),
        "seed": args.seed,
        "parameters": runs[0]["parameters"],
        "perturbation": runs[0]["perturbation"],
        "seconds": args.seconds,
        "result": result,
        "end_to_end": end_to_end,
        "extra": extra,
        "workers": [{k: v for k, v in r.items() if k != "layer_metrics"}
                    for r in runs],
        "platform": {
            "cores": NPROC,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "machine": platform.machine(),
            "git_commit": git_commit(root),
            **runs[0]["versions"],
        },
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(ops)} operations in {n_workers} workers, {failed} failed")
    for name, m in {**metrics, **({} if args.trace else extra)}.items():
        print(f"{name:32s} {m['value']!s:>24} {m['unit']}")
    for op in ops:
        for problem in op["problems"]:
            print(f"! worker {op['worker']} operation {op['index']}: {problem}")
    for problem in final_problems:
        print(f"! {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
