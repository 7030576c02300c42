"""The one observability CLI: ``python -m repro.observability COMMAND``."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro.observability
from repro.observability.__main__ import main

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


def assert_one_error_line(capsys, prefix="error: "):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix) and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv", [["profile", "--top", "abc", "x"], ["report"], ["nope"]],
                         ids=["unconvertible-option", "missing-trace", "unknown-command"])
def test_usage_errors_follow_the_one_error_convention(argv, capsys):
    assert main(argv) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("content, where", [
    (b'{"kind": "event", "trace": 0, "name": "x", "time": "abc"}\n', ":1: "),
    (b"\xff\xfe\n", ": "),
], ids=["unconvertible-field", "not-utf-8"])
@pytest.mark.parametrize("command", ["report", "dashboard"])
def test_an_unreadable_trace_names_its_file(tmp_path, capsys, command, content, where):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(content)
    assert main([command, str(path)]) == 2
    assert_one_error_line(capsys, f"error: {path}{where}")
