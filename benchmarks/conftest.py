"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one experiment from DESIGN.md §3 and prints
the table/series the paper's claim corresponds to.  ``pytest-benchmark``
wraps the headline measurement of each experiment; the full sweep runs
once (``pedantic`` mode) because experiments are deterministic
simulations, not microbenchmarks.

Headline metrics also persist: the session-scoped ``record`` fixture
feeds a :class:`repro.observability.bench.BenchRecorder`, and the
results land in ``BENCH_results.json`` (override the path with the
``BENCH_RESULTS`` environment variable) when the session ends.  Gate a
run against a baseline with::

    python -m repro.observability bench compare benchmarks/BENCH_baseline.json BENCH_results.json

Run:  pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os

import pytest

from repro.observability.bench import BenchRecorder


def pytest_addoption(parser):
    parser.addoption(
        "--workers", type=int, default=1,
        help="worker processes for trial-sharded experiments (1 = serial; "
             "merged metrics are bit-identical at any worker count)",
    )


@pytest.fixture
def workers(request):
    """Worker-process count for experiments built on repro.parallel."""
    return request.config.getoption("--workers")


def print_table(title: str, headers: list[str], rows: list[list], fmt: str = "{:>14}") -> None:
    """Print one experiment table (captured by pytest -s)."""
    print(f"\n=== {title} ===")
    head = "".join(fmt.format(h) for h in headers)
    print(head)
    print("-" * len(head))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(fmt.format(f"{v:.4g}"))
            else:
                cells.append(fmt.format(str(v)))
        print("".join(cells))


@pytest.fixture
def table():
    return print_table


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once


@pytest.fixture(scope="session")
def _bench_recorder():
    recorder = BenchRecorder()
    yield recorder
    if len(recorder):
        path = os.environ.get("BENCH_RESULTS", "BENCH_results.json")
        recorder.save(path)
        print(f"\n[bench] wrote {len(recorder)} headline metrics to {path}")


@pytest.fixture
def record(_bench_recorder):
    """Persist one headline metric: ``record("E2", "tree_mj", 0.73,
    unit="mJ", direction="lower", seed=11)`` — keyword args become the
    parameter hash that matches results across runs."""
    return _bench_recorder.record
