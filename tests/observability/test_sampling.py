"""Trace sampling: deterministic head decisions, tail-based retention,
seeded exemplars, bounded rings -- and the parallel determinism contract."""

import pytest

from repro.core.runtime import PervasiveGridRuntime
from repro.observability.sampling import (
    _ALERT_WINDOW_S,
    _MIN_SLOW_SAMPLES,
    SamplingConfig,
    TraceSampler,
)
from repro.observability.sketch import TelemetryConfig
from repro.observability.tracer import (
    STATUS_ERROR,
    SpanRecord,
    TraceEvent,
    Tracer,
)
from repro.parallel import TrialResult, TrialRunner, seed_specs
from repro.simkernel import Monitor


class FakeSim:
    """Just a clock: the tracer only reads ``sim.now``."""

    def __init__(self) -> None:
        self.now = 0.0


def sampled_tracer(**config):
    sim = FakeSim()
    tracer = Tracer(sim, sampler=TraceSampler(SamplingConfig(**config)),
                    monitor=Monitor())
    return sim, tracer


def run_traces(tracer, sim, n, duration_s=0.1, status=None):
    """``n`` root spans named query.run with stable sampling keys."""
    for i in range(n):
        span = tracer.span_under(None, "query.run", sampling_key=f"query:{i}")
        sim.now += duration_s
        span.end(status or "ok")
        sim.now += 0.01


def retained_roots(tracer):
    return [r for r in tracer.records
            if isinstance(r, SpanRecord) and r.parent_id is None]


class TestHeadSampling:
    def test_same_keys_same_decisions_every_run(self):
        keep_sets = []
        for _ in range(2):
            sim, tracer = sampled_tracer(head_rate=0.3, exemplar_capacity=0)
            run_traces(tracer, sim, 50)
            keep_sets.append({r.attrs["sampling_key"] for r in retained_roots(tracer)
                              if r.attrs.get("sampled") == "head"})
        assert keep_sets[0] == keep_sets[1]
        assert 0 < len(keep_sets[0]) < 50  # rate 0.3 keeps some, not all

    def test_rate_one_keeps_everything(self):
        sim, tracer = sampled_tracer(head_rate=1.0)
        run_traces(tracer, sim, 10)
        tracer.finalize()
        assert len(retained_roots(tracer)) == 10
        assert tracer.sampler.stats["head_kept"] == 10

    def test_seed_changes_the_kept_set(self):
        kept = []
        for seed in (0, 1):
            sim, tracer = sampled_tracer(head_rate=0.3, seed=seed,
                                         exemplar_capacity=0)
            run_traces(tracer, sim, 50)
            kept.append({r.attrs["sampling_key"] for r in retained_roots(tracer)})
        assert kept[0] != kept[1]


class TestTailRetention:
    def test_error_traces_always_kept(self):
        sim, tracer = sampled_tracer(head_rate=0.0, exemplar_capacity=0)
        run_traces(tracer, sim, 5)
        span = tracer.span_under(None, "query.run", sampling_key="query:err")
        sim.now += 0.1
        span.end(STATUS_ERROR)
        roots = retained_roots(tracer)
        assert [r.attrs["sampling_key"] for r in roots] == ["query:err"]
        assert roots[0].attrs["sampled"] == "tail:error"

    def test_error_anywhere_in_the_tree_keeps_the_trace(self):
        sim, tracer = sampled_tracer(head_rate=0.0, exemplar_capacity=0)
        root = tracer.span_under(None, "query.run", sampling_key="query:0")
        child = tracer.span_under(root, "query.execute")
        child.end(STATUS_ERROR)
        sim.now += 0.1
        root.end("ok")  # root itself is fine
        kept = retained_roots(tracer)
        assert len(kept) == 1 and kept[0].attrs["sampled"] == "tail:error"
        # the whole buffered subtree flushed, not just the root
        assert any(isinstance(r, SpanRecord) and r.name == "query.execute"
                   for r in tracer.records)

    def test_adaptive_slow_threshold_activates_after_min_samples(self):
        sim, tracer = sampled_tracer(head_rate=0.0, exemplar_capacity=0)
        # too few roots for a quantile: the slow one is not an outlier yet
        run_traces(tracer, sim, _MIN_SLOW_SAMPLES - 2, duration_s=0.1)
        run_traces(tracer, sim, 1, duration_s=5.0)
        assert retained_roots(tracer) == []
        # past the p99 of 120 roots (two of them slow) by the error band
        run_traces(tracer, sim, 100, duration_s=0.1)
        run_traces(tracer, sim, 1, duration_s=5.0)
        roots = retained_roots(tracer)
        assert len(roots) == 1
        assert roots[0].attrs["sampled"] == "tail:slow"
        assert roots[0].duration_s == pytest.approx(5.0)

    def test_traces_overlapping_an_alert_kept(self):
        sim, tracer = sampled_tracer(head_rate=0.0, exemplar_capacity=0)
        run_traces(tracer, sim, 3)
        tracer.sampler.note_alert(sim.now)
        run_traces(tracer, sim, 1)
        roots = retained_roots(tracer)
        assert len(roots) == 1
        assert roots[0].attrs["sampled"] == "tail:alert"
        # a root starting past the alert window is not tail-kept for it
        sim.now += _ALERT_WINDOW_S + 1.0
        run_traces(tracer, sim, 1)
        assert len(retained_roots(tracer)) == 1

    def test_still_open_traces_flush_at_finalize(self):
        sim, tracer = sampled_tracer(head_rate=0.0, exemplar_capacity=0)
        tracer.span_under(None, "query.run", sampling_key="query:0")  # never ends
        tracer.finalize()
        roots = retained_roots(tracer)
        assert len(roots) == 1
        assert roots[0].attrs["sampled"] == "tail:open"


class TestExemplars:
    def test_reservoir_keeps_a_bounded_deterministic_sample(self):
        kept = []
        for _ in range(2):
            sim, tracer = sampled_tracer(head_rate=0.0, exemplar_capacity=3,
                                         seed=42)
            run_traces(tracer, sim, 40)
            tracer.finalize()
            roots = retained_roots(tracer)
            assert len(roots) == 3
            assert all(r.attrs["sampled"] == "exemplar" for r in roots)
            kept.append([r.attrs["sampling_key"] for r in roots])
        assert kept[0] == kept[1]

    def test_capacity_zero_disables_exemplars(self):
        sim, tracer = sampled_tracer(head_rate=0.0, exemplar_capacity=0)
        run_traces(tracer, sim, 10)
        tracer.finalize()
        assert retained_roots(tracer) == []


class TestBudgetAndEvents:
    def test_free_floating_events_always_retained(self):
        sim, tracer = sampled_tracer(head_rate=0.0, exemplar_capacity=0)
        tracer.event("slo.fire", slo="latency")  # no current span: own trace id
        assert [r.name for r in tracer.records] == ["slo.fire"]

    def test_counters_are_consistent(self):
        sim, tracer = sampled_tracer(head_rate=0.3, exemplar_capacity=2)
        run_traces(tracer, sim, 30)
        tracer.finalize()
        stats = tracer.sampler.stats
        assert stats["traces_emitted"] == 30
        assert (stats["traces_retained"] + stats["traces_dropped"]
                == stats["traces_emitted"])
        assert (stats["spans_retained"] + stats["spans_dropped"]
                == stats["spans_emitted"])
        # mirrored onto the monitor under obs.sampling.*
        counters = tracer.monitor.counters()
        assert counters["obs.sampling.traces_emitted"] == 30

    def test_finalize_appends_one_summary_event_idempotently(self):
        sim, tracer = sampled_tracer(head_rate=1.0)
        run_traces(tracer, sim, 2)
        tracer.finalize()
        tracer.finalize()
        summaries = [r for r in tracer.records if isinstance(r, TraceEvent)
                     and r.name == "obs.sampling.summary"]
        assert len(summaries) == 1
        assert summaries[0].attrs["traces_emitted"] == 2


class TestBoundedRecords:
    def test_ring_evicts_oldest_and_counts_drops(self):
        sim = FakeSim()
        monitor = Monitor()
        tracer = Tracer(sim, max_records=3, monitor=monitor)
        for i in range(5):
            tracer.event("tick", i=i)
        assert len(tracer.records) == 3
        assert [r.attrs["i"] for r in tracer.records] == [2, 3, 4]
        assert tracer.dropped == 2
        assert monitor.counters()["obs.trace.dropped"] == 2

    def test_unbounded_default_is_a_plain_list(self):
        tracer = Tracer(FakeSim())
        assert isinstance(tracer.records, list)
        assert tracer.dropped == 0

    def test_clear_resets_ring_and_sampler(self):
        sim, tracer = sampled_tracer(head_rate=1.0)
        run_traces(tracer, sim, 2)
        tracer.finalize()
        tracer.clear()
        assert len(tracer.records) == 0
        assert tracer.sampler.stats["traces_emitted"] == 0
        run_traces(tracer, sim, 1)
        tracer.finalize()  # works again after clear
        assert tracer.sampler.stats["traces_emitted"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="max_records"):
            Tracer(FakeSim(), max_records=0)
        with pytest.raises(ValueError, match="enabled"):
            Tracer(None, enabled=False, sampler=TraceSampler())


class TestRuntimeWiring:
    def test_sampling_requires_trace(self):
        with pytest.raises(ValueError, match="requires trace=True"):
            PervasiveGridRuntime(n_sensors=9, area_m=20.0, seed=1,
                                 sampling=SamplingConfig())

    def test_sampled_run_emits_summary_and_counters(self):
        rt = PervasiveGridRuntime(n_sensors=9, area_m=20.0, seed=5, trace=True,
                                  sampling=SamplingConfig(head_rate=1.0))
        rt.query("SELECT AVG(temperature) FROM sensors")
        rt.tracer.finalize()
        assert any(isinstance(r, TraceEvent) and r.name == "obs.sampling.summary"
                   for r in rt.tracer.records)
        counters = rt.deployment.monitor.counters()
        assert counters["obs.sampling.traces_emitted"] >= 1
        roots = retained_roots(rt.tracer)
        assert any(r.name == "query.run" and "sampled" in r.attrs for r in roots)

    def test_telemetry_config_caps_monitor_and_trace(self):
        rt = PervasiveGridRuntime(
            n_sensors=9, area_m=20.0, seed=5, trace=True,
            telemetry=TelemetryConfig(histogram_max_raw=4, series_max_raw=4,
                                      max_trace_records=50))
        assert rt.tracer.max_records == 50
        hist = rt.deployment.monitor.histogram("queries.latency")
        for v in range(10):
            hist.observe(float(v))
        assert hist.dropped > 0
        assert len(hist.values) == 4


# ----------------------------------------------------------------------
# satellite 4: serial vs parallel determinism with sampling + sketches on
# (module-level trial fn: it must pickle into worker processes)
# ----------------------------------------------------------------------

def sampled_trial(spec):
    rt = PervasiveGridRuntime(
        n_sensors=9, area_m=20.0, seed=spec.seed, trace=True,
        sampling=SamplingConfig(head_rate=0.5, exemplar_capacity=2, seed=0),
        telemetry=TelemetryConfig(histogram_max_raw=4, series_max_raw=4))
    for _ in range(3):
        rt.query("SELECT AVG(temperature) FROM sensors")
    rt.tracer.finalize()  # sampler flush happens worker-side
    return TrialResult(monitor=rt.deployment.monitor,
                       metrics={"seed": spec.seed},
                       trace=rt.tracer, sim_time_s=rt.sim.now)


class TestParallelDeterminism:
    def test_retained_traces_and_sketches_identical_across_worker_counts(self):
        specs = seed_specs([3, 1, 2], trace=True)
        serial = TrialRunner(sampled_trial, workers=1).run(specs)
        parallel = TrialRunner(sampled_trial, workers=4).run(specs)
        # byte-identical retained trace set (already dict-normalized)
        assert serial.trace == parallel.trace
        assert serial.monitor.summary() == parallel.monitor.summary()
        for sweep in (serial, parallel):
            sweep.monitor.histogram("queries.latency").ensure_sketch()
        assert (serial.monitor.histogram("queries.latency").sketch.state()
                == parallel.monitor.histogram("queries.latency").sketch.state())
