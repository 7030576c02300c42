"""The one observability CLI: ``python -m repro.observability COMMAND``."""

import os
import pathlib
import subprocess
import sys

import repro.observability

SRC = pathlib.Path(repro.observability.__file__).resolve().parents[2]


def test_module_runs_without_warnings():
    """``-W error``: running the package must not import a module twice."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro.observability", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    for command in ("report", "dashboard", "profile", "bench"):
        assert command in proc.stdout


def test_bench_is_imported_eagerly():
    from repro.observability import BenchRecorder, compare, load_results  # noqa: F401

    assert "__getattr__" not in vars(repro.observability)
