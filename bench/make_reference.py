"""Rewrite the stored seed-0 references of fig1-scenario and pair-dynamics.

Run from the root of a checkout, only when a change is meant to alter
the program's outputs:

    python3 bench/make_reference.py
"""

import sys
import tempfile
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main():
    warnings.simplefilter("ignore")
    fig1 = workloads.WORKLOADS["fig1-scenario"]
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as out:
        rc = fig1.run(fig1.setup(0), Path(out))
        if rc != 0:
            raise SystemExit(f"fig1-scenario exited with {rc}")
        fig1.write_reference(Path(out))
    pair = workloads.WORKLOADS["pair-dynamics"]
    pair.write_reference(pair.run(pair.setup(0), None))


if __name__ == "__main__":
    main()
