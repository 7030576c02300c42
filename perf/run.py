"""Benchmark entry point, run from the repository root:

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the program from ``src/`` of the same checkout.  Exits with code 2,
printing no result, when that source tree is absent.
"""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        sys.exit(2)
    # single-threaded: numeric libraries must not spread work over cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # string hashing, and with it every dict and set layout, is randomized
    # per process; pin it so that runs differ only in their inputs
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # the script's own directory would shadow stdlib names; use the root
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from perf.harness import main

    sys.exit(main())
