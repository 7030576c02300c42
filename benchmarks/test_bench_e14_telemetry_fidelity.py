"""E14 -- telemetry fidelity under bounded memory (sketches + sampling).

The observability stack must survive grid-scale soak runs: a pervasive
grid answering queries continuously cannot retain every raw latency
sample and every trace span.  This experiment runs the same query
workload at 1x / 10x / 100x volume twice per scale -- **exhaustive**
(unlimited instrument buffers, no trace sampling: the ground truth) and
**bounded** (:class:`~repro.observability.sketch.TelemetryConfig` caps +
:class:`~repro.observability.sampling.SamplingConfig` head/tail trace
sampling + the ``max_records`` ring) -- and checks the bargain both ways:

* **memory**: exhaustive telemetry grows linearly with query count;
  bounded telemetry saturates (rings + sketch buckets + retained
  traces), so its last-decade growth ratio stays small and its absolute
  peak sits an order of magnitude below exhaustive at 100x.
* **fidelity**: p50/p95/p99 of per-epoch query latency read from the
  bounded monitor's :class:`QuantileSketch` stay within the sketch's
  configured relative error of the exhaustive (exact numpy) values.
* **visibility**: every sampling decision is accounted for
  (``retained + dropped == emitted``) and the retained trace always
  includes the sampling summary.

All six cells are independent worlds sharded through the
:class:`~repro.parallel.TrialRunner`; every recorded metric except the
wall-clock ones (keyed by worker count) is bit-identical at any worker
count -- the sketch merges are integer bucket addition and the sampling
decisions are hash-based, so this experiment extends the CI determinism
gate.  Set ``E14_TRACE_EXPORT`` to a path to export the bounded cells'
retained trace as JSONL (uploaded as a CI artifact).
"""

import os

from repro.core import PervasiveGridRuntime
from repro.observability import SamplingConfig, TelemetryConfig, sketch
from repro.parallel import TrialResult, cell_specs, run_trials

#: Query volumes: a 100x sweep (the paper's soak regime is the top end).
SCALES = (20, 200, 2000)
QUERY = "SELECT AVG(value) FROM sensors"
SEED = 11
N_SENSORS = 16

#: The bounded cell's telemetry budget.
BOUNDED_TELEMETRY = TelemetryConfig(histogram_max_raw=256, series_max_raw=256,
                                    max_trace_records=512)
BOUNDED_SAMPLING = SamplingConfig(head_rate=0.1, exemplar_capacity=4, seed=0)
#: Exhaustive cells lift the monitor's default 1024-sample caps entirely.
EXHAUSTIVE_TELEMETRY = TelemetryConfig(histogram_max_raw=None,
                                       series_max_raw=None)


def run_cell(spec):
    """One (scale, mode) world; runs in a worker process.

    All reductions happen here so the recorded metrics are per-world
    deterministic facts, independent of how cells shard over workers.
    """
    bounded = spec.params["mode"] == "bounded"
    runtime = PervasiveGridRuntime(
        n_sensors=N_SENSORS, area_m=30.0, seed=spec.seed, trace=True,
        sampling=BOUNDED_SAMPLING if bounded else None,
        telemetry=BOUNDED_TELEMETRY if bounded else EXHAUSTIVE_TELEMETRY,
    )
    for _ in range(spec.params["n_queries"]):
        runtime.query(QUERY)
    # flush the sampler worker-side so the returned trace is the final
    # retained set (exemplars + summary event included)
    runtime.tracer.finalize()
    monitor = runtime.deployment.monitor
    latency = monitor.histogram("queries.latency")
    metrics = {
        "monitor_cells": monitor.footprint()["total"],
        "trace_records": len(runtime.tracer.records),
        "ring_dropped": runtime.tracer.dropped,
        "p50": latency.percentile(50),
        "p95": latency.percentile(95),
        "p99": latency.percentile(99),
        "latency_dropped": latency.dropped,
    }
    if bounded:
        metrics["sampler"] = dict(runtime.tracer.sampler.stats)
    return TrialResult(monitor=monitor, metrics=metrics,
                       sim_time_s=runtime.sim.now,
                       trace=runtime.tracer if bounded else None)


def run_sweep(workers: int = 1):
    # every cell traces in-world, but run_cell only *returns* the bounded
    # cells' traces -- their retained set is the artifact; the exhaustive
    # ones would just bloat the merged trace
    specs = cell_specs(
        [{"n_queries": n, "mode": mode}
         for n in SCALES for mode in ("exhaustive", "bounded")],
        seed=SEED, trace=True,
    )
    sweep = run_trials(run_cell, specs, workers=workers)
    cells = {(o.spec.params["n_queries"], o.spec.params["mode"]): o.metrics
             for o in sweep.outcomes}
    return cells, sweep


def telemetry_total(cell: dict) -> int:
    """Peak telemetry storage of one world, in cells + trace records
    (deterministic units -- platform-independent, unlike bytes)."""
    return cell["monitor_cells"] + cell["trace_records"]


def test_e14_telemetry_fidelity(benchmark, table, once, record, workers):
    cells, sweep = once(benchmark, lambda: run_sweep(workers))

    rows = []
    for n in SCALES:
        ex, bo = cells[(n, "exhaustive")], cells[(n, "bounded")]
        rel99 = abs(bo["p99"] - ex["p99"]) / ex["p99"]
        rows.append([n, telemetry_total(ex), telemetry_total(bo),
                     ex["trace_records"], bo["trace_records"], rel99])
    table(
        "E14: telemetry memory (cells) and p99 fidelity, exhaustive vs bounded",
        ["queries", "exh total", "bnd total", "exh trace", "bnd trace",
         "p99 rel err"],
        rows,
    )

    top = SCALES[-1]
    mid = SCALES[-2]
    ex_top, bo_top = cells[(top, "exhaustive")], cells[(top, "bounded")]

    # -- memory: exhaustive grows with volume, bounded saturates --------
    ex_growth = telemetry_total(ex_top) / telemetry_total(cells[(mid, "exhaustive")])
    bo_growth = telemetry_total(bo_top) / telemetry_total(cells[(mid, "bounded")])
    assert ex_growth > 8.0, "exhaustive telemetry should track query volume"
    assert bo_growth < 4.0, "bounded telemetry must saturate, not track volume"
    assert telemetry_total(bo_top) < telemetry_total(ex_top) / 5
    assert bo_top["latency_dropped"] > 0  # the sketch actually engaged
    assert bo_top["ring_dropped"] > 0  # so did the trace ring

    # -- fidelity: sketch percentiles within the sketch's error --------
    # (0.01 sketch alpha + margin for numpy's interpolated convention)
    rel_errors = {}
    for q in ("p50", "p95", "p99"):
        rel_errors[q] = abs(bo_top[q] - ex_top[q]) / ex_top[q]
        assert rel_errors[q] <= 2 * sketch.DEFAULT_ALPHA, (
            f"{q} drifted {rel_errors[q]:.4f} from the exhaustive value")

    # -- visibility: every trace accounted for, summary retained -------
    stats = bo_top["sampler"]
    assert stats["traces_emitted"] == top
    assert stats["traces_retained"] + stats["traces_dropped"] == stats["traces_emitted"]
    assert stats["spans_retained"] + stats["spans_dropped"] == stats["spans_emitted"]
    assert any(r["kind"] == "event" and r["name"] == "obs.sampling.summary"
               for r in sweep.trace)

    # -- persist the headline numbers into the bench trajectory --------
    record("E14", "telemetry_peak_memory", float(telemetry_total(bo_top)),
           unit="cells", direction="lower", seed=SEED, n_sensors=N_SENSORS,
           n_queries=top)
    record("E14", "memory_growth_ratio", bo_growth, unit="x",
           direction="lower", seed=SEED, n_sensors=N_SENSORS)
    for q in ("p50", "p95", "p99"):
        record("E14", f"{q}_rel_error", rel_errors[q], unit="1",
               direction="lower", seed=SEED, n_sensors=N_SENSORS,
               n_queries=top)
    record("E14", "spans_retained_fraction",
           stats["spans_retained"] / stats["spans_emitted"], unit="1",
           direction="lower", seed=SEED, n_sensors=N_SENSORS, n_queries=top)

    # wall-clock facts are keyed by worker count so determinism gates
    # never compare them across serial/parallel runs
    sim_s = sum(o.result.sim_time_s for o in sweep.outcomes if o.result)
    record("E14", "wall_clock_per_sim_second", sweep.trial_wall_s / sim_s,
           unit="s/s", direction="either", workers=sweep.workers)

    export_path = os.environ.get("E14_TRACE_EXPORT")
    if export_path:
        count = sweep.export_trace(export_path)
        print(f"\n[E14] exported {count} retained trace records to {export_path}")
