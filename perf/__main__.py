"""Run every workload, each in its own fresh process, one after another.

    PYTHONPATH=src python -m perf run [--seed S] [--seconds N] [--trace]

Without ``--trace`` each workload prints its end-to-end metrics (with
units and sample counts), its outcome metrics, its correctness checks
and its output digest.  With ``--trace`` each prints its per-layer
metrics and writes ``perf/out/<workload>.layers.json``.  Exits non-zero
if any workload crashed, timed out or failed a correctness check.
"""

import argparse
import json
import subprocess
import sys

from perf.harness import PERF_DIR
from perf.workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the workloads")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=20)
    run.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    # the budget, plus set-up, checks and a last episode that overruns it
    timeout_s = 2 * args.seconds + 120

    ok = True
    for name in WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(int(args.trace))],
                stdout=subprocess.PIPE, text=True, timeout=timeout_s)
        except subprocess.TimeoutExpired:
            print(f"{name:<16} CRASHED (no result within {timeout_s} s)", flush=True)
            ok = False
            continue
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            result = None
        if result is None:
            print(f"{name:<16} CRASHED (exit {proc.returncode})", flush=True)
            ok = False
        elif not result["correct"]:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
