"""End-to-end observability for the pervasive-grid simulator.

Three layers, all over *simulated* time:

* :mod:`~repro.observability.tracer` -- span-based tracing with
  parent/child causality and per-query trace ids; recording is
  append-only so instrumentation does not distort benchmarks, and the
  shared :data:`NOOP_TRACER` makes every instrumentation site free when
  tracing is off.
* :mod:`~repro.observability.metrics` -- the namespaced metric-name
  conventions unifying the :class:`~repro.simkernel.monitor.Monitor`'s
  counters/gauges/histograms/series under ``<subsystem>.<noun>`` names.
* :mod:`~repro.observability.analysis` / ``export`` / ``report`` --
  JSONL export, critical-path extraction that attributes 100% of a
  span's end-to-end latency, per-subsystem rollups, and their renderers
  (``--format json`` for machine consumers).
* :mod:`~repro.observability.slo` -- the verdict layer: declarative
  SLOs over the canonical metrics, evaluated over sliding
  simulated-time windows by an :class:`SLOEvaluator` driven from the
  sim kernel, with alert fire/resolve on the trace and per-subsystem
  health scoring (``render_health``).
* :mod:`~repro.observability.bench` -- the benchmark trajectory:
  :class:`BenchRecorder` persists every experiment's headline metrics
  to ``BENCH_results.json``; ``bench compare OLD NEW`` is the
  regression gate.
* :mod:`~repro.observability.dashboard` -- renders activity sparklines,
  SLO status, the alert timeline, and the query cost ledger from one
  export.
* :mod:`~repro.observability.profiling` / ``profile`` -- the *wall
  clock* axis: a :class:`HookProfiler` on the sim kernel's dispatch
  loop attributing self/cumulative wall time per handler and
  subsystem (flamegraph collapsed-stack export included), rendered by
  ``profile`` (top-N hotspots, subsystem rollups, ``--diff OLD NEW``).
  Profiles never touch the Monitor, so merged parallel results stay
  bit-identical.
* :mod:`~repro.observability.sketch` / ``sampling`` -- the memory
  axis: a raw tail plus a mergeable :class:`QuantileSketch`
  (DDSketch-style buckets at a fixed 1% relative error) bound each of
  the Monitor's histograms and series, while the :class:`TraceSampler`
  (head + tail-based + seeded exemplars; :class:`SamplingConfig` sets
  the head rate, the reservoir size and the seed) bounds the trace --
  always keeping error/alert/slow-outlier traces -- without breaking
  the parallel runner's bit-identical reduction.
  :class:`TelemetryConfig` sets the three caps: each instrument's raw
  tail (histograms, series) and the trace ring.
* :mod:`~repro.observability.ledger` -- the resource axis:
  :class:`QueryCostLedger` folds a trace into one record per query
  (latency, energy, bytes-on-air, hops, uplink/grid usage) for the
  Decision Maker's training pipeline and the dashboard's cost section.

Wiring: every subsystem accepts a tracer (defaulting to the no-op) and
:class:`~repro.core.runtime.PervasiveGridRuntime` owns one for the whole
stack (``PervasiveGridRuntime(..., trace=True)``).

One CLI reads every export: ``python -m repro.observability
{report,dashboard,profile,bench}`` (:mod:`repro.observability.__main__`).
"""

from repro.observability.tracer import (
    NOOP_SPAN,
    NOOP_TRACER,
    STATUS_ERROR,
    STATUS_OK,
    Span,
    SpanRecord,
    TraceEvent,
    Tracer,
)
from repro.observability.export import read_jsonl, record_from_dict, write_jsonl
from repro.observability.analysis import (
    PathSegment,
    Trace,
    critical_path,
    event_counts,
    self_times,
    subsystem_rollup,
)
from repro.observability.metrics import (
    CONVENTIONS,
    MetricSpec,
    rollup_by_subsystem,
)
from repro.observability.ledger import QueryCost, QueryCostLedger, render_ledger
from repro.observability.sketch import QuantileSketch, TelemetryConfig
from repro.observability.sampling import SamplingConfig, TraceSampler
from repro.observability.profiling import (
    NOOP_PROFILER,
    HookProfiler,
    load_profile,
    merge_profiles,
    subsystem_wall_rollup,
)
from repro.observability.slo import (
    SLO,
    AlertEvent,
    GridHealth,
    Signal,
    SLOEvaluator,
    SLOStatus,
    SubsystemHealth,
    breaker_slo,
    default_slos,
    render_health,
)
from repro.observability.bench import (BenchRecorder, BenchResult, CompareReport,
                                       compare, load_results)

__all__ = [
    "Tracer",
    "Span",
    "SpanRecord",
    "TraceEvent",
    "NOOP_TRACER",
    "NOOP_SPAN",
    "STATUS_OK",
    "STATUS_ERROR",
    "Trace",
    "PathSegment",
    "critical_path",
    "self_times",
    "subsystem_rollup",
    "event_counts",
    "write_jsonl",
    "read_jsonl",
    "record_from_dict",
    "MetricSpec",
    "CONVENTIONS",
    "rollup_by_subsystem",
    "SLO",
    "Signal",
    "SLOEvaluator",
    "SLOStatus",
    "AlertEvent",
    "GridHealth",
    "SubsystemHealth",
    "default_slos",
    "breaker_slo",
    "render_health",
    "HookProfiler",
    "NOOP_PROFILER",
    "load_profile",
    "merge_profiles",
    "subsystem_wall_rollup",
    "QueryCost",
    "QueryCostLedger",
    "render_ledger",
    "QuantileSketch",
    "TelemetryConfig",
    "SamplingConfig",
    "TraceSampler",
    "BenchRecorder",
    "BenchResult",
    "CompareReport",
    "compare",
    "load_results",
]
