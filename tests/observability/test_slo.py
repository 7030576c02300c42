"""The SLO engine: signals, sliding windows, alerts, health verdicts."""

import math

import pytest

from repro.observability.slo import (
    SLO,
    AlertEvent,
    Signal,
    SLOEvaluator,
    breaker_slo,
    default_slos,
    render_health,
)
from repro.observability.tracer import Tracer
from repro.simkernel import Monitor, Simulator


def make_slo(signal, objective, comparison="<=", window_s=60.0,
             severity="page", name="test.metric"):
    return SLO(name, "test objective", signal, objective,
               comparison=comparison, window_s=window_s, severity=severity)


class TestValidation:
    def test_signal_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Signal("median", "x.y")

    def test_ratio_needs_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            Signal("ratio", "x.y")

    def test_percentile_needs_q(self):
        with pytest.raises(ValueError, match="q"):
            Signal("percentile", "x.y")

    def test_prefix_only_for_counters(self):
        with pytest.raises(ValueError, match="prefix"):
            Signal("mean", "x.y", prefix=True)
        Signal("delta", "x.", prefix=True)  # fine

    def test_slo_name_needs_subsystem(self):
        with pytest.raises(ValueError, match="subsystem"):
            make_slo(Signal("delta", "x.y"), 1.0, name="flat")

    def test_slo_comparison_and_severity(self):
        with pytest.raises(ValueError, match="comparison"):
            make_slo(Signal("delta", "x.y"), 1.0, comparison="<")
        with pytest.raises(ValueError, match="severity"):
            make_slo(Signal("delta", "x.y"), 1.0, severity="panic")

    def test_slo_window_positive(self):
        with pytest.raises(ValueError, match="window_s"):
            make_slo(Signal("delta", "x.y"), 1.0, window_s=0.0)

    def test_evaluator_needs_slos(self):
        with pytest.raises(ValueError, match="at least one"):
            SLOEvaluator(Simulator(), Monitor(), [])

    def test_evaluator_rejects_duplicate_names(self):
        slo = make_slo(Signal("delta", "x.y"), 1.0)
        with pytest.raises(ValueError, match="unique"):
            SLOEvaluator(Simulator(), Monitor(), [slo, slo])

    def test_evaluator_interval_positive(self):
        slo = make_slo(Signal("delta", "x.y"), 1.0)
        with pytest.raises(ValueError, match="interval_s"):
            SLOEvaluator(Simulator(), Monitor(), [slo], interval_s=0.0)

    def test_start_until_in_the_past(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.run()
        ev = SLOEvaluator(sim, Monitor(), [make_slo(Signal("delta", "x.y"), 1.0)])
        with pytest.raises(ValueError, match="until_s"):
            ev.start(50.0)

    def test_met_both_comparisons(self):
        le = make_slo(Signal("delta", "x.y"), 5.0, comparison="<=")
        assert le.met(5.0) and not le.met(5.1)
        ge = make_slo(Signal("delta", "x.y"), 0.9, comparison=">=")
        assert ge.met(0.9) and not ge.met(0.89)

    def test_subsystem_prefix(self):
        assert make_slo(Signal("delta", "x.y"), 1.0, name="grid.up").subsystem == "grid"


class TestSignals:
    """Each signal kind, evaluated by hand-driving ticks."""

    def setup_method(self):
        self.sim = Simulator()
        self.monitor = Monitor()

    def evaluator(self, *slos, **kwargs):
        return SLOEvaluator(self.sim, self.monitor, list(slos), **kwargs)

    def advance(self, dt):
        self.sim.schedule(dt, lambda: None)
        self.sim.run()

    def test_counter_delta_slides_out_of_window(self):
        slo = make_slo(Signal("delta", "net.drops"), 2.0, window_s=60.0)
        ev = self.evaluator(slo)
        self.monitor.counter("net.drops").add(5)
        self.advance(10.0)
        ev.tick()
        assert ev.status["test.metric"].value == 5.0
        assert ev.status["test.metric"].firing
        # 70 s later the burst has left the 60 s window
        self.advance(70.0)
        ev.tick()
        assert ev.status["test.metric"].value == 0.0
        assert not ev.status["test.metric"].firing

    def test_counter_rate(self):
        slo = make_slo(Signal("rate", "net.drops"), 1.0, window_s=50.0)
        ev = self.evaluator(slo)
        self.monitor.counter("net.drops").add(10)
        self.advance(10.0)
        ev.tick()
        assert ev.status["test.metric"].value == pytest.approx(10.0 / 50.0)

    def test_ratio_none_while_denominator_zero(self):
        slo = make_slo(Signal("ratio", "q.failed", denominator="q.total"), 0.1)
        ev = self.evaluator(slo)
        self.advance(1.0)
        ev.tick()
        assert ev.status["test.metric"].value is None
        assert not ev.status["test.metric"].firing  # no data is not a breach
        self.monitor.counter("q.failed").add(1)
        self.monitor.counter("q.total").add(4)
        self.advance(1.0)
        ev.tick()
        assert ev.status["test.metric"].value == pytest.approx(0.25)

    def test_prefix_counters_are_summed(self):
        slo = make_slo(Signal("delta", "q.failed.", prefix=True), 0.0)
        ev = self.evaluator(slo)
        self.monitor.counter("q.failed.timeout").add(2)
        self.monitor.counter("q.failed.no-route").add(3)
        self.monitor.counter("q.succeeded").add(7)  # not under the prefix
        self.advance(1.0)
        ev.tick()
        assert ev.status["test.metric"].value == 5.0

    def test_histogram_percentile(self):
        slo = make_slo(Signal("percentile", "q.latency", q=50.0), 10.0)
        ev = self.evaluator(slo)
        for v in (1.0, 2.0, 3.0, 4.0, 100.0):
            self.monitor.histogram("q.latency").observe(v)
        self.advance(1.0)
        ev.tick()
        assert ev.status["test.metric"].value == pytest.approx(3.0)

    def test_series_mean_uses_sample_timestamps(self):
        slo = make_slo(Signal("mean", "x.level"), 1.0, window_s=60.0)
        ev = self.evaluator(slo)
        self.monitor.series("x.level").record(5.0, 100.0)  # will age out
        self.advance(100.0)
        self.monitor.series("x.level").record(90.0, 2.0)
        self.monitor.series("x.level").record(95.0, 4.0)
        ev.tick()
        assert ev.status["test.metric"].value == pytest.approx(3.0)

    def test_gauge_last(self):
        slo = make_slo(Signal("last", "x.depth"), 3.0)
        ev = self.evaluator(slo)
        self.advance(1.0)
        ev.tick()
        assert ev.status["test.metric"].value is None  # never set
        self.monitor.gauge("x.depth").set(7.0)
        self.advance(1.0)
        ev.tick()
        assert ev.status["test.metric"].value == 7.0

    def test_probe_sampled_each_tick(self):
        online = [1.0]
        slo = make_slo(Signal("mean", "grid.uplink_online"), 0.99,
                       comparison=">=", window_s=30.0)
        ev = self.evaluator(slo).probe("grid.uplink_online", lambda: online[0])
        self.advance(10.0)
        ev.tick()
        assert ev.status["test.metric"].value == 1.0
        online[0] = 0.0
        self.advance(10.0)
        ev.tick()
        assert ev.status["test.metric"].value == pytest.approx(0.5)
        assert ev.status["test.metric"].firing


class TestAlerting:
    def drive(self, tracer=None):
        """One fire/resolve cycle on a counter-delta SLO."""
        sim, monitor = Simulator(), Monitor()
        slo = make_slo(Signal("delta", "net.drops"), 0.0, window_s=30.0,
                       name="net.drops_budget")
        ev = SLOEvaluator(sim, monitor, [slo], interval_s=10.0, tracer=tracer)
        ev.start(100.0)
        sim.schedule(15.0, lambda: monitor.counter("net.drops").add(3))
        sim.run(until=100.0)
        return monitor, ev

    def test_fire_and_resolve_on_timeline(self):
        monitor, ev = self.drive()
        phases = [(e.phase, e.time_s) for e in ev.timeline]
        assert phases == [("fire", 20.0), ("resolve", 60.0)]
        assert isinstance(ev.timeline[0], AlertEvent)
        assert ev.timeline[0].severity == "page"
        st = ev.status["net.drops_budget"]
        assert st.fired == 1 and st.resolved == 1 and not st.firing
        assert 0.0 < st.compliance < 1.0

    def test_monitor_counters(self):
        monitor, ev = self.drive()
        counters = monitor.counters()
        assert counters["slo.alerts_fired"] == 1.0
        assert counters["slo.alerts_resolved"] == 1.0
        assert counters["slo.evaluations"] == 10.0  # t=10..100 every 10 s

    def test_trace_events(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=True)
        slo = make_slo(Signal("delta", "net.drops"), 0.0, window_s=30.0,
                       name="net.drops_budget")
        monitor = Monitor()
        ev = SLOEvaluator(sim, monitor, [slo], interval_s=10.0, tracer=tracer)
        ev.start(100.0)
        sim.schedule(15.0, lambda: monitor.counter("net.drops").add(3))
        sim.run(until=100.0)
        names = [e.name for e in tracer.records if e.name.startswith("slo.")
                 and e.name != "slo.sample"]
        assert names == ["slo.fire", "slo.resolve"]
        samples = [e for e in tracer.records if e.name == "slo.sample"]
        assert len(samples) == 10
        assert {e.attrs["slo"] for e in samples} == {"net.drops_budget"}

    def test_deterministic_timeline(self):
        _, a = self.drive()
        _, b = self.drive()
        assert a.timeline == b.timeline

    def test_breached_series_tracks_firing_count(self):
        monitor, ev = self.drive()
        series = monitor.series("slo.breached")
        assert series.max() == 1.0
        assert series.last() == 0.0


class TestHealth:
    def build(self, severity="page"):
        sim, monitor = Simulator(), Monitor()
        slos = [
            make_slo(Signal("delta", "net.drops"), 0.0, name="net.drops_budget",
                     severity=severity),
            make_slo(Signal("delta", "queries.failed"), 0.0,
                     name="queries.failure_budget", severity="warn"),
        ]
        ev = SLOEvaluator(sim, monitor, slos, interval_s=10.0)
        return sim, monitor, ev

    def test_healthy_before_and_after_clean_run(self):
        sim, monitor, ev = self.build()
        health = ev.health()
        assert health.verdict == "healthy"
        ev.start(50.0)
        sim.run(until=50.0)
        assert ev.health().verdict == "healthy"
        assert ev.health().firing == ()
        assert all(s.score == 1.0 for s in ev.health().subsystems)

    def test_page_alert_is_critical(self):
        sim, monitor, ev = self.build(severity="page")
        monitor.counter("net.drops").add(1)
        ev.start(20.0)
        sim.run(until=20.0)
        health = ev.health()
        assert health.verdict == "critical"
        assert "net.drops_budget" in health.firing
        by_name = {s.subsystem: s for s in health.subsystems}
        assert by_name["net"].status == "critical"
        assert by_name["queries"].status == "healthy"

    def test_warn_alert_is_degraded(self):
        sim, monitor, ev = self.build(severity="warn")
        monitor.counter("net.drops").add(1)
        ev.start(20.0)
        sim.run(until=20.0)
        assert ev.health().verdict == "degraded"

    def test_past_breach_keeps_subsystem_degraded(self):
        sim, monitor, ev = self.build(severity="page")
        monitor.counter("net.drops").add(1)
        ev.start(200.0)  # long run: alert resolves, compliance < 1 remains
        sim.run(until=200.0)
        health = ev.health()
        assert health.firing == ()
        by_name = {s.subsystem: s for s in health.subsystems}
        assert by_name["net"].status == "degraded"
        assert 0.0 < by_name["net"].score < 1.0
        assert health.verdict == "degraded"

    def test_render_health_mentions_verdict_and_alerts(self):
        sim, monitor, ev = self.build(severity="page")
        monitor.counter("net.drops").add(1)
        ev.start(20.0)
        sim.run(until=20.0)
        text = render_health(ev)
        assert "grid health: CRITICAL" in text
        assert "net.drops_budget" in text
        assert "fire" in text
        assert "FIRING" in text
        no_alerts = render_health(ev, alerts=False)
        assert "alerts" not in no_alerts


class TestScheduling:
    def test_start_ticks_until_horizon_only(self):
        sim, monitor = Simulator(), Monitor()
        ev = SLOEvaluator(sim, monitor, [make_slo(Signal("delta", "x.y"), 1.0)],
                          interval_s=15.0)
        ev.start(100.0)
        sim.run()  # exhaust the heap: self-rescheduling must terminate
        assert monitor.counters()["slo.evaluations"] == 6.0  # t=15..90
        assert sim.now <= 100.0


class TestDefaultCatalog:
    def test_default_slos_are_well_formed(self):
        slos = default_slos()
        names = [s.name for s in slos]
        assert len(set(names)) == len(names)
        assert "queries.latency_p95" in names
        assert "grid.uplink_availability" in names
        SLOEvaluator(Simulator(), Monitor(), slos)  # constructible

    def test_breaker_slo(self):
        slo = breaker_slo(threshold=0.5)
        assert slo.subsystem == "resilience"
        assert slo.objective == 0.5
        assert slo.signal.kind == "last"
